#include "adversary/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <sstream>

#include "ba/ba_plus.h"
#include "ba/long_ba_plus.h"
#include "ca/broadcast_ca.h"
#include "ca/convex_agreement.h"
#include "ca/find_prefix.h"
#include "ca/fixed_length_ca.h"
#include "ca/high_cost_ca.h"
#include "ca/pi_n.h"
#include "util/bitstring.h"
#include "util/json.h"

namespace coca::adv {

// ---------------------------------------------------------------------------
// Case validation.

void validate_case(const FuzzCase& c) {
  require(c.n >= 4, "FuzzCase: need n >= 4");
  require(c.t >= 1 && 3 * c.t < c.n, "FuzzCase: need 1 <= t < n/3");
  require(c.ell >= 1, "FuzzCase: need ell >= 1");
  // A case with no corrupted parties and no fault plan is a plain honest
  // run: still useful (trace collection, oracle self-checks), so allowed.
  require(c.corrupted.size() <= static_cast<std::size_t>(c.t),
          "FuzzCase: need |corrupted| <= t");
  std::set<int> seen;
  for (const int id : c.corrupted) {
    require(id >= 0 && id < c.n, "FuzzCase: corrupted id out of range");
    require(seen.insert(id).second, "FuzzCase: duplicate corrupted id");
  }
  c.faults.validate(c.n);
  // A party is byzantine or environment-faulted, never both: charging a
  // fault to an already-corrupted party would double-spend the adversary
  // budget the oracle reasons about. Note |charged| itself is NOT capped
  // at t -- pushing past the threshold is what the degradation campaign
  // does; the oracle only promises invariants while the union fits in t.
  for (const int id : c.faults.charged()) {
    require(!seen.contains(id),
            "FuzzCase: fault charged to a corrupted party");
  }
  require(c.mutation.max_delay >= 1, "FuzzCase: need max_delay >= 1");
  require(c.threads == 0 || c.threads == 1,
          "FuzzCase: threads must be 0 or 1 (every party runs as a fiber "
          "on one thread; there is no thread window)");
}

namespace {

// ---------------------------------------------------------------------------
// Budgets.

/// Per-target round/bits caps: generous "smoke budgets" -- a large constant
/// times the paper's cost formula -- so that honest-side regressions and
/// adversarially-induced blowups register as violations while every correct
/// execution passes with an order of magnitude of headroom. Exceeding the
/// round budget ends the run (every honest party still running is a
/// termination violation); exceeding the bits budget is recorded after the
/// run.
struct Budget {
  std::size_t rounds;
  std::uint64_t bits;
};

Budget budget_for(const FuzzCase& c) {
  const auto n = static_cast<std::uint64_t>(c.n);
  const std::uint64_t ell = c.ell;
  const std::uint64_t kappa = 256;  // Merkle root / BA value width
  const std::uint64_t lg = ceil_log2(static_cast<std::size_t>(c.n)) + 1;
  const std::uint64_t lg_ell = ceil_log2(c.ell) + 1;
  // One Pi_BA+/Pi_lBA+ instance: O(l n + kappa n^2 log n) bits, O(n) rounds
  // (Phase-King underneath), both times a fat constant.
  const std::uint64_t ba_bits = ell * n + kappa * n * n * lg;
  const std::uint64_t ba_rounds = 400 + 80 * n;
  Budget b{0, 0};
  if (c.protocol == "BAPlus" || c.protocol == "LongBAPlus") {
    b.rounds = ba_rounds;
    b.bits = 256 * ba_bits;
  } else if (c.protocol == "FindPrefix" || c.protocol == "FixedLengthCA") {
    // O(log l) search iterations plus AddLastBit/GetOutput.
    b.rounds = (lg_ell + 4) * ba_rounds;
    b.bits = 256 * (lg_ell + 4) * ba_bits;
  } else if (c.protocol == "PiN" || c.protocol == "PiZ" ||
             c.protocol == "BroadcastTrimCA") {
    // Length agreement (O(log n) bit-BAs) + fixed-length run; Pi_Z adds the
    // sign split, BroadcastTrim runs n sequential broadcast instances.
    const std::uint64_t instances =
        c.protocol == "BroadcastTrimCA" ? n : lg + lg_ell + 6;
    b.rounds = (instances + 4) * ba_rounds + 60 * n;
    b.bits = 256 * (instances + 4) * ba_bits;
  } else if (c.protocol == "HighCostCA") {
    // O(l n^3) bits, O(n) rounds.
    b.rounds = 200 + 60 * n;
    b.bits = 512 * (ell + 64) * n * n * n;
  } else {
    throw Error("Fuzzer: unknown protocol '" + c.protocol + "'");
  }
  return b;
}

// ---------------------------------------------------------------------------
// Execution harness: honest code everywhere, corrupted ids behind a Mutator.

Rng workload_rng(const FuzzCase& c) {
  return Rng::stream(c.input_seed, 0xF00DULL);
}

bool is_corrupted(const FuzzCase& c, int id) {
  return std::find(c.corrupted.begin(), c.corrupted.end(), id) !=
         c.corrupted.end();
}

/// Excluded from the oracle's guarantees: corrupted (byzantine) parties
/// plus the parties the fault plan is charged to. The invariants quantify
/// over everyone else.
bool is_excluded(const FuzzCase& c, int id) {
  if (is_corrupted(c, id)) return true;
  if (c.faults.empty()) return false;
  const std::vector<int> ch = c.faults.charged();
  return std::binary_search(ch.begin(), ch.end(), id);
}

/// Runs `body(ctx, id)` as every party; corrupted parties run it as a
/// byzantine-protocol instance behind a seeded Mutator tap (their outputs
/// are discarded). `check` sees the honest outputs and may append
/// violations.
template <class Out>
FuzzOutcome run_case(
    const FuzzCase& c, const ExecHooks& hooks,
    const std::function<Out(net::PartyContext&, int)>& body,
    const std::function<void(const std::vector<std::optional<Out>>&,
                             FuzzOutcome&)>& check) {
  const Budget budget = budget_for(c);
  FuzzOutcome out;
  net::SyncNetwork net(c.n, c.t);
  if (!c.faults.empty()) net.set_fault_plan(c.faults);
  if (hooks.transcript != nullptr) net.set_transcript(hooks.transcript);
  if (hooks.tracer != nullptr) net.set_tracer(hooks.tracer);
  if (hooks.observer != nullptr) net.set_round_observer(hooks.observer);
  if (hooks.router != nullptr) net.set_round_router(hooks.router);
  std::vector<std::optional<Out>> outputs(static_cast<std::size_t>(c.n));
  for (int id = 0; id < c.n; ++id) {
    if (is_corrupted(c, id)) {
      MutatorConfig mc = c.mutation;
      mc.n = c.n;
      mc.seed = Rng::derive_stream_seed(c.mutation.seed,
                                        static_cast<std::uint64_t>(id));
      net.set_byzantine_protocol(
          id, [&body, id](net::PartyContext& ctx) { (void)body(ctx, id); },
          std::make_shared<Mutator>(mc));
    } else {
      auto* slot = &outputs[static_cast<std::size_t>(id)];
      net.set_honest(id, [&body, slot, id](net::PartyContext& ctx) {
        *slot = body(ctx, id);
      });
    }
  }
  // The engine survives per-party failures and reports structured
  // outcomes. The oracle charges anything that happens to an excluded
  // party to the adversary budget; a non-excluded party that aborts is a
  // violation, and one that never decides registers below through its
  // empty output slot. A timed-out run with every non-excluded party
  // decided is fine -- frozen crashed runners and non-terminating
  // corrupted ones legitimately keep the network alive until the round cap.
  net::RunReport report = net.run_report(budget.rounds);
  out.stats = std::move(report.stats);
  out.outcomes = std::move(report.outcomes);
  out.terminated = !report.timed_out;
  out.failure = std::move(report.transport_error);
  for (int id = 0; id < c.n; ++id) {
    const auto uid = static_cast<std::size_t>(id);
    if (is_excluded(c, id)) {
      outputs[uid].reset();  // excluded outputs are not the oracle's business
      continue;
    }
    if (out.outcomes[uid].outcome == net::Outcome::kAborted) {
      out.verdict.violations.push_back("crash: party " + std::to_string(id) +
                                       ": " + out.outcomes[uid].evidence);
    }
  }
  // BITS_l budget over the non-excluded parties only: charged parties are
  // the adversary's to waste.
  std::uint64_t bits = 0;
  for (int id = 0; id < c.n; ++id) {
    if (!is_excluded(c, id)) {
      bits += out.stats.bytes_by_party[static_cast<std::size_t>(id)] * 8;
    }
  }
  if (bits > budget.bits) {
    out.verdict.violations.push_back(
        "honest-bits: " + std::to_string(bits) +
        " non-excluded bits exceed the smoke budget " +
        std::to_string(budget.bits));
  }
  for (int id = 0; id < c.n; ++id) {
    if (!is_excluded(c, id) && !outputs[static_cast<std::size_t>(id)]) {
      out.verdict.violations.push_back("termination: honest party " +
                                       std::to_string(id) +
                                       " produced no output");
    }
  }
  check(outputs, out);
  return out;
}

/// Agreement over engaged honest outputs (operator== equality).
template <class Out>
void check_agreement(const std::vector<std::optional<Out>>& outputs,
                     FuzzOutcome& out) {
  const Out* first = nullptr;
  for (const auto& o : outputs) {
    if (!o) continue;
    if (first == nullptr) {
      first = &*o;
    } else if (!(*o == *first)) {
      out.verdict.violations.push_back("agreement: honest outputs disagree");
      return;
    }
  }
  if (first == nullptr) {
    out.verdict.violations.push_back("agreement: no honest outputs");
  }
}

/// Convex validity: every engaged output within [min, max] of the
/// non-excluded honest parties' inputs, compared with `less`.
template <class Out, class Less>
void check_hull(const FuzzCase& c, const std::vector<Out>& inputs,
                const std::vector<std::optional<Out>>& outputs, Less less,
                FuzzOutcome& out) {
  const Out* lo = nullptr;
  const Out* hi = nullptr;
  for (int id = 0; id < c.n; ++id) {
    if (is_excluded(c, id)) continue;
    const Out& v = inputs[static_cast<std::size_t>(id)];
    if (lo == nullptr || less(v, *lo)) lo = &v;
    if (hi == nullptr || less(*hi, v)) hi = &v;
  }
  for (std::size_t id = 0; id < outputs.size(); ++id) {
    const auto& o = outputs[id];
    if (!o) continue;
    if (less(*o, *lo) || less(*hi, *o)) {
      out.verdict.violations.push_back(
          "validity: party " + std::to_string(id) +
          " output escapes the honest inputs' convex hull");
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Targets. Each builds its workload from the case's input seed, runs the
// honest protocol everywhere, and states that protocol's slice of the
// paper's guarantees.

FuzzOutcome run_pi_z(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::ConvexAgreement proto;
  Rng rng = workload_rng(c);
  std::vector<BigInt> inputs;
  for (int i = 0; i < c.n; ++i) {
    inputs.emplace_back(rng.nat_below_pow2(c.ell), rng.next_bool());
  }
  return run_case<BigInt>(
      c, hooks,
      [&](net::PartyContext& ctx, int id) {
        return proto.run(ctx, inputs[static_cast<std::size_t>(id)]);
      },
      [&](const std::vector<std::optional<BigInt>>& outputs, FuzzOutcome& o) {
        check_agreement(outputs, o);
        check_hull(c, inputs, outputs, std::less<BigInt>{}, o);
      });
}

FuzzOutcome run_broadcast_trim(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::DefaultBAStack stack;
  const ca::BroadcastTrimCA proto(stack.kit());
  Rng rng = workload_rng(c);
  std::vector<BigInt> inputs;
  for (int i = 0; i < c.n; ++i) {
    inputs.emplace_back(rng.nat_below_pow2(c.ell), rng.next_bool());
  }
  return run_case<BigInt>(
      c, hooks,
      [&](net::PartyContext& ctx, int id) {
        return proto.run(ctx, inputs[static_cast<std::size_t>(id)]);
      },
      [&](const std::vector<std::optional<BigInt>>& outputs, FuzzOutcome& o) {
        check_agreement(outputs, o);
        check_hull(c, inputs, outputs, std::less<BigInt>{}, o);
      });
}

FuzzOutcome run_pi_n(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::DefaultBAStack stack;
  const ca::PiN proto(stack.kit());
  Rng rng = workload_rng(c);
  std::vector<BigNat> inputs;
  for (int i = 0; i < c.n; ++i) inputs.push_back(rng.nat_below_pow2(c.ell));
  return run_case<BigNat>(
      c, hooks,
      [&](net::PartyContext& ctx, int id) {
        return proto.run(ctx, inputs[static_cast<std::size_t>(id)]);
      },
      [&](const std::vector<std::optional<BigNat>>& outputs, FuzzOutcome& o) {
        check_agreement(outputs, o);
        check_hull(c, inputs, outputs, std::less<BigNat>{}, o);
      });
}

FuzzOutcome run_high_cost(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::HighCostCA proto;
  Rng rng = workload_rng(c);
  std::vector<BigNat> inputs;
  for (int i = 0; i < c.n; ++i) inputs.push_back(rng.nat_below_pow2(c.ell));
  return run_case<BigNat>(
      c, hooks,
      [&](net::PartyContext& ctx, int id) {
        return proto.run(ctx, inputs[static_cast<std::size_t>(id)]);
      },
      [&](const std::vector<std::optional<BigNat>>& outputs, FuzzOutcome& o) {
        check_agreement(outputs, o);
        check_hull(c, inputs, outputs, std::less<BigNat>{}, o);
      });
}

FuzzOutcome run_fixed_length(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::DefaultBAStack stack;
  const ca::FixedLengthCA proto(stack.kit());
  Rng rng = workload_rng(c);
  std::vector<Bitstring> inputs;
  for (int i = 0; i < c.n; ++i) inputs.push_back(rng.bits(c.ell));
  const auto num_less = [](const Bitstring& a, const Bitstring& b) {
    return Bitstring::numeric_compare(a, b) < 0;
  };
  return run_case<Bitstring>(
      c, hooks,
      [&](net::PartyContext& ctx, int id) {
        return proto.run(ctx, c.ell, inputs[static_cast<std::size_t>(id)]);
      },
      [&](const std::vector<std::optional<Bitstring>>& outputs,
          FuzzOutcome& o) {
        check_agreement(outputs, o);
        for (std::size_t id = 0; id < outputs.size(); ++id) {
          if (outputs[id] && outputs[id]->size() != c.ell) {
            o.verdict.violations.push_back(
                "validity: party " + std::to_string(id) +
                " output is not an ell-bit value");
            return;  // numeric_compare below needs equal lengths
          }
        }
        check_hull(c, inputs, outputs, num_less, o);
      });
}

FuzzOutcome run_find_prefix(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::DefaultBAStack stack;
  const ba::LongBAPlus lba(stack.kit());
  Rng rng = workload_rng(c);
  std::vector<Bitstring> inputs;
  for (int i = 0; i < c.n; ++i) inputs.push_back(rng.bits(c.ell));
  return run_case<ca::FindPrefixResult>(
      c, hooks,
      [&](net::PartyContext& ctx, int id) {
        return ca::find_prefix(ctx, lba, c.ell,
                               inputs[static_cast<std::size_t>(id)]);
      },
      [&](const std::vector<std::optional<ca::FindPrefixResult>>& outputs,
          FuzzOutcome& o) {
        // Lemma 1: all honest parties agree on PREFIX*; each holds an
        // ell-bit v extending it and an ell-bit witness v_bot; both lie in
        // the honest inputs' numeric range.
        const Bitstring* prefix = nullptr;
        for (const auto& res : outputs) {
          if (!res) continue;
          if (prefix == nullptr) {
            prefix = &res->prefix;
          } else if (!(res->prefix == *prefix)) {
            o.verdict.violations.push_back(
                "agreement: honest parties disagree on PREFIX*");
            return;
          }
        }
        if (prefix == nullptr) {
          o.verdict.violations.push_back("agreement: no honest outputs");
          return;
        }
        const Bitstring* lo = nullptr;
        const Bitstring* hi = nullptr;
        for (int id = 0; id < c.n; ++id) {
          if (is_excluded(c, id)) continue;
          const Bitstring& v = inputs[static_cast<std::size_t>(id)];
          if (lo == nullptr || Bitstring::numeric_compare(v, *lo) < 0) lo = &v;
          if (hi == nullptr || Bitstring::numeric_compare(*hi, v) < 0) hi = &v;
        }
        for (std::size_t id = 0; id < outputs.size(); ++id) {
          const auto& res = outputs[id];
          if (!res) continue;
          if (res->v.size() != c.ell || res->v_bot().size() != c.ell) {
            o.verdict.violations.push_back(
                "validity: party " + std::to_string(id) +
                " holds a non-ell-bit v / v_bot");
            return;
          }
          if (!res->v.has_prefix(*prefix)) {
            o.verdict.violations.push_back(
                "validity: party " + std::to_string(id) +
                " holds v that does not extend PREFIX*");
          }
          for (const Bitstring* w : {&res->v, &res->v_bot()}) {
            if (Bitstring::numeric_compare(*w, *lo) < 0 ||
                Bitstring::numeric_compare(*hi, *w) < 0) {
              o.verdict.violations.push_back(
                  "validity: party " + std::to_string(id) +
                  " holds v / v_bot outside the honest inputs' range");
              return;
            }
          }
        }
      });
}

/// BA+ workloads need collisions for the Bounded Pre-Agreement cases to be
/// reachable: parties draw from a two-value pool, and one case in three is
/// fully pre-agreed.
std::vector<Bytes> ba_inputs(const FuzzCase& c, std::size_t value_len) {
  Rng rng = workload_rng(c);
  const Bytes a = rng.bytes(value_len);
  const Bytes b = rng.bytes(value_len);
  std::vector<Bytes> inputs;
  const bool pre_agreed = rng.below(3) == 0;
  for (int i = 0; i < c.n; ++i) {
    inputs.push_back(pre_agreed || !rng.next_bool() ? a : b);
  }
  return inputs;
}

template <class Proto>
FuzzOutcome run_ba_plus_like(const FuzzCase& c, const ExecHooks& hooks,
                             const Proto& proto,
                             const std::vector<Bytes>& inputs) {
  return run_case<ba::MaybeBytes>(
      c, hooks,
      [&](net::PartyContext& ctx, int id) {
        return proto.run(ctx, inputs[static_cast<std::size_t>(id)]);
      },
      [&](const std::vector<std::optional<ba::MaybeBytes>>& outputs,
          FuzzOutcome& o) {
        check_agreement(outputs, o);
        // Honest input multiset, for the two BA+ extras; agreement already
        // compared the outputs, so the extras only need the first one.
        std::vector<net::ValueCount> honest_count;
        for (int id = 0; id < c.n; ++id) {
          if (!is_excluded(c, id)) {
            net::count_value(honest_count,
                             inputs[static_cast<std::size_t>(id)]);
          }
        }
        for (std::size_t id = 0; id < outputs.size(); ++id) {
          const auto& res = outputs[id];
          if (!res) continue;
          if (res->has_value()) {
            // Intrusion Tolerance (Definition 3): a non-bottom output is
            // some honest party's input.
            if (std::none_of(honest_count.begin(), honest_count.end(),
                             [&](const auto& h) { return h.value == **res; })) {
              o.verdict.violations.push_back(
                  "intrusion-tolerance: party " + std::to_string(id) +
                  " output is not an honest input");
            }
          } else {
            // Bounded Pre-Agreement (Definition 4): bottom only when fewer
            // than n - 2t honest parties shared an input.
            int max_mult = 0;
            for (const auto& [value, count] : honest_count) {
              max_mult = std::max(max_mult, count);
            }
            if (max_mult >= c.n - 2 * c.t) {
              o.verdict.violations.push_back(
                  "bounded-pre-agreement: bottom despite " +
                  std::to_string(max_mult) + " >= n - 2t pre-agreed parties");
            }
          }
          break;
        }
      });
}

FuzzOutcome run_ba_plus(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::DefaultBAStack stack;
  const ba::BAPlus proto(stack.kit());
  return run_ba_plus_like(c, hooks, proto, ba_inputs(c, 2));
}

FuzzOutcome run_long_ba_plus(const FuzzCase& c, const ExecHooks& hooks) {
  const ca::DefaultBAStack stack;
  const ba::LongBAPlus proto(stack.kit());
  return run_ba_plus_like(c, hooks, proto, ba_inputs(c, c.ell / 8 + 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// Public surface.

const std::vector<std::string>& known_protocols() {
  static const std::vector<std::string> kProtocols = {
      "FixedLengthCA", "FindPrefix", "BAPlus",     "LongBAPlus",
      "PiN",           "PiZ",        "HighCostCA", "BroadcastTrimCA",
  };
  return kProtocols;
}

FuzzOutcome execute_case(const FuzzCase& c, const ExecHooks& hooks) {
  validate_case(c);
  if (c.protocol == "PiZ") return run_pi_z(c, hooks);
  if (c.protocol == "PiN") return run_pi_n(c, hooks);
  if (c.protocol == "HighCostCA") return run_high_cost(c, hooks);
  if (c.protocol == "BroadcastTrimCA") return run_broadcast_trim(c, hooks);
  if (c.protocol == "FixedLengthCA") return run_fixed_length(c, hooks);
  if (c.protocol == "FindPrefix") return run_find_prefix(c, hooks);
  if (c.protocol == "BAPlus") return run_ba_plus(c, hooks);
  if (c.protocol == "LongBAPlus") return run_long_ba_plus(c, hooks);
  throw Error("Fuzzer: unknown protocol '" + c.protocol + "'");
}

FuzzOutcome execute_case(const FuzzCase& c, net::Transcript* transcript,
                         obs::Tracer* tracer) {
  ExecHooks hooks;
  hooks.transcript = transcript;
  hooks.tracer = tracer;
  return execute_case(c, hooks);
}

std::string to_json(const CorpusEntry& entry) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \""
     << (entry.c.faults.empty() ? "coca-fuzz-v1" : "coca-fuzz-v2")
     << "\",\n";
  os << "  \"protocol\": \"" << json::escape(entry.c.protocol) << "\",\n";
  os << "  \"n\": " << entry.c.n << ",\n";
  os << "  \"t\": " << entry.c.t << ",\n";
  os << "  \"ell\": " << entry.c.ell << ",\n";
  os << "  \"input_seed\": " << entry.c.input_seed << ",\n";
  os << "  \"threads\": " << entry.c.threads << ",\n";
  os << "  \"corrupted\": [";
  for (std::size_t i = 0; i < entry.c.corrupted.size(); ++i) {
    os << (i ? ", " : "") << entry.c.corrupted[i];
  }
  os << "],\n";
  os << "  \"mutation\": {\"seed\": " << entry.c.mutation.seed
     << ", \"max_delay\": " << entry.c.mutation.max_delay
     << ", \"weights\": [";
  for (std::size_t i = 0; i < kNumMutOps; ++i) {
    os << (i ? ", " : "") << entry.c.mutation.weights[i];
  }
  os << "]},\n";
  if (!entry.c.faults.empty()) {
    const net::FaultPlan& f = entry.c.faults;
    os << "  \"faults\": {\n";
    os << "    \"crashes\": [";
    for (std::size_t i = 0; i < f.crashes.size(); ++i) {
      os << (i ? ", " : "") << "{\"party\": " << f.crashes[i].party
         << ", \"from_round\": " << f.crashes[i].from_round
         << ", \"until_round\": " << f.crashes[i].until_round << "}";
    }
    os << "],\n";
    os << "    \"cuts\": [";
    for (std::size_t i = 0; i < f.cuts.size(); ++i) {
      os << (i ? ", " : "") << "{\"from\": " << f.cuts[i].from
         << ", \"to\": " << f.cuts[i].to
         << ", \"from_round\": " << f.cuts[i].from_round
         << ", \"until_round\": " << f.cuts[i].until_round << "}";
    }
    os << "],\n";
    os << "    \"partitions\": [";
    for (std::size_t i = 0; i < f.partitions.size(); ++i) {
      os << (i ? ", " : "") << "{\"side\": [";
      for (std::size_t j = 0; j < f.partitions[i].side.size(); ++j) {
        os << (j ? ", " : "") << f.partitions[i].side[j];
      }
      os << "], \"from_round\": " << f.partitions[i].from_round
         << ", \"until_round\": " << f.partitions[i].until_round << "}";
    }
    os << "],\n";
    os << "    \"shuffles\": [";
    for (std::size_t i = 0; i < f.shuffles.size(); ++i) {
      os << (i ? ", " : "") << "{\"party\": " << f.shuffles[i].party
         << ", \"seed\": " << f.shuffles[i].seed << "}";
    }
    os << "]\n  },\n";
  }
  os << "  \"violations\": [";
  for (std::size_t i = 0; i < entry.violations.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json::escape(entry.violations[i]) << "\"";
  }
  os << "],\n";
  os << "  \"note\": \"" << json::escape(entry.note) << "\"\n}\n";
  return os.str();
}

namespace {

void read_mutation(json::Reader& r, MutatorConfig& m) {
  r.members([&](const std::string& key) {
    if (key == "seed") {
      m.seed = r.int_in<std::uint64_t>();
    } else if (key == "max_delay") {
      m.max_delay = r.int_in<std::size_t>();
    } else if (key == "weights") {
      std::size_t i = 0;
      r.elements([&] {
        if (i == kNumMutOps) r.fail("too many mutation weights");
        m.weights[i++] = r.int_in<std::uint32_t>();
      });
      if (i != kNumMutOps) r.fail("too few mutation weights");
    } else {
      r.fail("unknown mutation key '" + key + "'");
    }
  });
}

/// Each fault kind is an array of flat objects.
void read_faults(json::Reader& r, net::FaultPlan& f) {
  const auto window = [&r](const std::string& key, auto& entry) {
    if (key == "from_round") {
      entry.from_round = r.int_in<std::size_t>();
    } else if (key == "until_round") {
      entry.until_round = r.int_in<std::size_t>();
    } else {
      r.fail("unknown fault key '" + key + "'");
    }
  };
  r.members([&](const std::string& kind) {
    if (kind == "crashes") {
      r.elements([&] {
        net::FaultPlan::Crash& cr = f.crashes.emplace_back();
        r.members([&](const std::string& key) {
          if (key == "party") {
            cr.party = r.int_in<int>(0);
          } else {
            window(key, cr);
          }
        });
      });
    } else if (kind == "cuts") {
      r.elements([&] {
        net::FaultPlan::LinkCut& cut = f.cuts.emplace_back();
        r.members([&](const std::string& key) {
          if (key == "from") {
            cut.from = r.int_in<int>(0);
          } else if (key == "to") {
            cut.to = r.int_in<int>(0);
          } else {
            window(key, cut);
          }
        });
      });
    } else if (kind == "partitions") {
      r.elements([&] {
        net::FaultPlan::Partition& part = f.partitions.emplace_back();
        r.members([&](const std::string& key) {
          if (key == "side") {
            r.elements([&] { part.side.push_back(r.int_in<int>(0)); });
          } else {
            window(key, part);
          }
        });
      });
    } else if (kind == "shuffles") {
      r.elements([&] {
        net::FaultPlan::Shuffle& sh = f.shuffles.emplace_back();
        r.members([&](const std::string& key) {
          if (key == "party") {
            sh.party = r.int_in<int>();
          } else if (key == "seed") {
            sh.seed = r.int_in<std::uint64_t>();
          } else {
            r.fail("unknown shuffle key '" + key + "'");
          }
        });
      });
    } else {
      r.fail("unknown faults key '" + kind + "'");
    }
  });
}

}  // namespace

CorpusEntry read_corpus_entry(json::Reader& r) {
  CorpusEntry entry;
  FuzzCase& c = entry.c;
  bool saw_schema = false;
  r.members([&](const std::string& key) {
    if (key == "schema") {
      const std::string schema = r.string();
      if (schema != "coca-fuzz-v1" && schema != "coca-fuzz-v2") {
        r.fail("unsupported schema '" + schema + "'");
      }
      saw_schema = true;
    } else if (key == "protocol") {
      c.protocol = r.string();
    } else if (key == "n") {
      c.n = r.int_in<int>(0);
    } else if (key == "t") {
      c.t = r.int_in<int>(0);
    } else if (key == "ell") {
      c.ell = r.int_in<std::size_t>();
    } else if (key == "input_seed") {
      c.input_seed = r.int_in<std::uint64_t>();
    } else if (key == "threads") {
      c.threads = r.int_in<int>(0);
    } else if (key == "corrupted") {
      r.elements([&] { c.corrupted.push_back(r.int_in<int>(0)); });
    } else if (key == "mutation") {
      read_mutation(r, c.mutation);
    } else if (key == "faults") {
      read_faults(r, c.faults);
    } else if (key == "violations") {
      r.elements([&] { entry.violations.push_back(r.string()); });
    } else if (key == "note") {
      entry.note = r.string();
    } else {
      r.fail("unknown key '" + key + "'");
    }
  });
  if (!saw_schema) r.fail("missing schema");
  validate_case(c);
  return entry;
}

CorpusEntry corpus_entry_from_json(std::string_view text) {
  json::Reader r(text, "corpus JSON");
  CorpusEntry entry = read_corpus_entry(r);
  if (!r.at_end()) r.fail("trailing bytes");
  return entry;
}

FuzzCase shrink_case(FuzzCase c, const FailPredicate& still_fails,
                     std::size_t max_attempts) {
  std::size_t attempts = 0;
  const auto try_swap = [&](FuzzCase cand) {
    if (attempts >= max_attempts) return false;
    ++attempts;
    if (!still_fails(cand)) return false;
    c = std::move(cand);
    return true;
  };
  // Drops one entry of one fault kind; a candidate that would leave the
  // case with neither corrupted parties nor faults is skipped (invalid).
  const auto drop_fault_entry = [&](auto member) {
    for (std::size_t i = 0; i < (c.faults.*member).size(); ++i) {
      FuzzCase cand = c;
      auto& vec = cand.faults.*member;
      vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(i));
      if (cand.corrupted.empty() && cand.faults.empty()) continue;
      if (try_swap(std::move(cand))) return true;
    }
    return false;
  };
  bool progress = true;
  while (progress && attempts < max_attempts) {
    progress = false;
    // Fewer corrupted parties (down to none while faults remain).
    if (c.corrupted.size() > 1 ||
        (!c.corrupted.empty() && !c.faults.empty())) {
      for (std::size_t i = 0; i < c.corrupted.size(); ++i) {
        FuzzCase cand = c;
        cand.corrupted.erase(cand.corrupted.begin() +
                             static_cast<std::ptrdiff_t>(i));
        if (try_swap(std::move(cand))) {
          progress = true;
          break;
        }
      }
    }
    // Fewer fault entries.
    if (drop_fault_entry(&net::FaultPlan::crashes)) progress = true;
    if (drop_fault_entry(&net::FaultPlan::cuts)) progress = true;
    if (drop_fault_entry(&net::FaultPlan::partitions)) progress = true;
    if (drop_fault_entry(&net::FaultPlan::shuffles)) progress = true;
    // Smallest network: n = 4, t = 1, one corrupted party. Skipped for
    // fault-bearing cases: remapping every fault window's party ids into
    // the shrunken network rarely preserves the failure and often makes
    // the candidate malformed (dropping entries above does the same work).
    if (c.n > 4 && c.faults.empty() && !c.corrupted.empty()) {
      FuzzCase cand = c;
      cand.n = 4;
      cand.t = 1;
      cand.corrupted = {c.corrupted.front() % 4};
      if (try_swap(std::move(cand))) progress = true;
    }
    // Shorter inputs.
    if (c.ell > 1) {
      FuzzCase cand = c;
      cand.ell = c.ell / 2;
      if (try_swap(std::move(cand))) progress = true;
    }
    // Fewer active operators. All weights reaching zero is a meaningful
    // minimum: the mutator degrades to pure passthrough, i.e. the failure
    // needs no adversary at all (the canary bug shrinks to exactly this).
    for (std::size_t op = 0; op < kNumMutOps; ++op) {
      if (c.mutation.weights[op] == 0) continue;
      FuzzCase cand = c;
      cand.mutation.weights[op] = 0;
      if (try_swap(std::move(cand))) progress = true;
    }
    // Shallower delayed replay.
    if (c.mutation.max_delay > 1) {
      FuzzCase cand = c;
      cand.mutation.max_delay = 1;
      if (try_swap(std::move(cand))) progress = true;
    }
  }
  return c;
}

Fuzzer::Fuzzer(FuzzerOptions options)
    : options_(std::move(options)),
      protocols_(options_.protocols.empty() ? known_protocols()
                                            : options_.protocols),
      rng_(options_.seed) {
  require(!protocols_.empty(), "Fuzzer: no protocols selected");
  const auto& known = known_protocols();
  for (const auto& p : protocols_) {
    require(std::find(known.begin(), known.end(), p) != known.end(),
            "Fuzzer: unknown protocol in options");
  }
  require(!options_.sizes.empty(), "Fuzzer: no sizes selected");
  for (const int n : options_.sizes) {
    require(n >= 4, "Fuzzer: sizes must be >= 4 (need t >= 1)");
  }
}

FuzzCase Fuzzer::next_case() {
  FuzzCase c;
  // Round-robin the protocol so a short budget still touches every target;
  // everything else is drawn from the seeded search stream.
  c.protocol = protocols_[counter_ % protocols_.size()];
  ++counter_;
  c.n = options_.sizes[rng_.below(options_.sizes.size())];
  c.t = (c.n - 1) / 3;
  constexpr std::size_t kElls[] = {8, 16, 33, 64};
  c.ell = kElls[rng_.below(std::size(kElls))];
  // With faults in play the corrupted draw leaves room in the t budget for
  // the plan's charged parties (possibly all of it: environment-only
  // cases, the crash-fault literature's home turf, are reachable).
  const bool with_faults = options_.faults && rng_.next_bool();
  const auto num_corrupt =
      with_faults ? rng_.below(static_cast<std::uint64_t>(c.t))
                  : 1 + rng_.below(static_cast<std::uint64_t>(c.t));
  std::set<int> ids;
  while (ids.size() < num_corrupt) {
    ids.insert(static_cast<int>(rng_.below(static_cast<std::uint64_t>(c.n))));
  }
  c.corrupted.assign(ids.begin(), ids.end());
  if (with_faults) {
    // Resample until the charged set avoids the corrupted ids; every draw
    // comes off the one search stream, so the whole case stays replayable
    // from the fuzzer seed.
    net::FaultSampleConfig fc;
    fc.n = c.n;
    fc.horizon = 24;
    fc.max_charged = c.t - static_cast<int>(c.corrupted.size());
    for (int attempt = 0; attempt < 8 && fc.max_charged >= 1; ++attempt) {
      fc.seed = rng_.next_u64();
      net::FaultPlan plan = net::sample_fault_plan(fc);
      const std::vector<int> charged = plan.charged();
      const bool overlap = std::any_of(
          charged.begin(), charged.end(),
          [&](int id) { return ids.contains(id); });
      if (!overlap) {
        c.faults = std::move(plan);
        break;
      }
    }
    if (c.corrupted.empty() && c.faults.empty()) {
      // Disjointness never worked out; fall back to one corrupted party.
      c.corrupted.push_back(
          static_cast<int>(rng_.below(static_cast<std::uint64_t>(c.n))));
    }
  }
  c.input_seed = rng_.next_u64();
  c.mutation.seed = rng_.next_u64();
  c.mutation.max_delay = 1 + rng_.below(4);
  switch (rng_.below(4)) {
    case 0:
      break;  // default mix: mostly honest traffic, occasional strikes
    case 1: {  // focused: one mutating operator dominates
      const std::size_t op = 1 + rng_.below(kNumMutOps - 1);
      c.mutation.weights = {8, 0, 0, 0, 0, 0, 0, 0, 0};
      c.mutation.weights[op] = 8;
      break;
    }
    case 2:  // aggressive: most messages corrupted
      c.mutation.weights = {4, 4, 4, 4, 4, 4, 4, 2, 4};
      break;
    case 3:  // omission/delay heavy (liveness stress)
      c.mutation.weights = {8, 0, 0, 0, 0, 0, 6, 3, 0};
      break;
  }
  return c;
}

FuzzReport Fuzzer::run() {
  FuzzReport report;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.budget_sec));
  while (report.executed < options_.max_cases &&
         std::chrono::steady_clock::now() < deadline) {
    const FuzzCase c = next_case();
    const FuzzOutcome outcome = execute_case(c);
    ++report.executed;
    ++report.cases_by_protocol[c.protocol];
    if (outcome.verdict.ok()) continue;
    CorpusEntry entry;
    entry.c = c;
    entry.violations = outcome.verdict.violations;
    entry.note = "found by sweep seed " + std::to_string(options_.seed);
    if (options_.shrink) {
      entry.c = shrink_case(c, [](const FuzzCase& cand) {
        return !execute_case(cand).verdict.ok();
      });
      entry.violations = execute_case(entry.c).verdict.violations;
      entry.note += "; shrunk from n=" + std::to_string(c.n) +
                    " ell=" + std::to_string(c.ell) +
                    " |corrupted|=" + std::to_string(c.corrupted.size());
    }
    report.violations.push_back(std::move(entry));
  }
  return report;
}

}  // namespace coca::adv

// Exact time attribution of one traced execution.
//
// The tracer records, per party, the slice intervals in which that party
// computed (its "slices" track) and the phase and kernel spans its code
// opened (its "party" track). Phase spans stay open across the barrier
// waits between slices, so their raw durations overlap other parties'
// work; only the part of a party's own slices is its time. For every span
// the self intervals (its interval minus its children's) are intersected
// with the party's slices and charged to the span: kernel spans to the
// outermost kernel's name, phase spans to their own (leaf) name, and slice
// time outside every span to "(none)". The engine track's round spans
// cover the slices plus the controller's merge/metering/delivery work and
// the wire route() calls, so
//
//   wall = other + handshake + rounds
//   rounds = slices + route + controller
//   slices = sum(kernel buckets) + sum(phase buckets)
//
// holds exactly in integer nanoseconds; the last line is checked (it fails
// if spans do not nest), the first two define the remainders `other` and
// `controller`, which must not be negative.
#include <algorithm>

#include "bench.h"

namespace perfbench {
namespace {

struct Iv {
  std::uint64_t b = 0;
  std::uint64_t e = 0;
};

/// Total length of xs ∩ ys; both sorted by start and pairwise disjoint.
std::uint64_t overlap(const std::vector<Iv>& xs, const std::vector<Iv>& ys) {
  std::uint64_t sum = 0;
  std::size_t j = 0;
  for (const Iv& x : xs) {
    while (j < ys.size() && ys[j].e <= x.b) ++j;
    for (std::size_t k = j; k < ys.size() && ys[k].b < x.e; ++k) {
      const std::uint64_t b = std::max(x.b, ys[k].b);
      const std::uint64_t e = std::min(x.e, ys[k].e);
      if (e > b) sum += e - b;
    }
  }
  return sum;
}

Iv interval_of(const coca::obs::SpanRecord& s) {
  return {s.start_ns, s.start_ns + s.dur_ns};
}

void fail(Attribution& a, const std::string& what) {
  if (a.exact) a.problem = what;
  a.exact = false;
}

}  // namespace

std::uint64_t Attribution::kernels_total_ns() const {
  std::uint64_t s = 0;
  for (const auto& [name, ns] : kernel_ns) s += ns;
  return s;
}

std::uint64_t Attribution::phases_total_ns() const {
  std::uint64_t s = 0;
  for (const auto& [name, ns] : phase_self_ns) s += ns;
  return s;
}

std::uint64_t Attribution::bucket_sum_ns() const {
  return kernels_total_ns() + phases_total_ns() + controller_ns + route_ns +
         handshake_ns + other_ns;
}

void attribute(const coca::obs::Tracer& tracer, std::uint64_t wall_ns,
               std::uint64_t route_ns, std::uint64_t handshake_ns,
               Attribution& into) {
  Attribution& a = into;
  std::uint64_t rounds_ns = 0;
  std::uint64_t slices_ns = 0;
  std::uint64_t charged_ns = 0;  // kernel + phase buckets of this run
  const int tracks = static_cast<int>(tracer.track_count());
  for (int tr = 0; tr < tracks; ++tr) {
    const std::string& kind = tracer.track_kind(tr);
    if (kind == "engine") {
      for (const auto& s : tracer.spans(tr)) {
        if (s.cat == "round") rounds_ns += s.dur_ns;
      }
      continue;
    }
    if (kind != "party") continue;
    if (tr + 1 >= tracks || tracer.track_kind(tr + 1) != "slices") {
      fail(a, "party track without its slice track");
      continue;
    }
    std::vector<Iv> slices;
    std::uint64_t party_slices_ns = 0;
    for (const auto& s : tracer.spans(tr + 1)) {
      const Iv iv = interval_of(s);
      if (!slices.empty() && iv.b < slices.back().e) {
        fail(a, "overlapping slices on " + tracer.track_label(tr + 1));
      }
      slices.push_back(iv);
      party_slices_ns += s.dur_ns;
      ++a.slices;
    }
    slices_ns += party_slices_ns;

    const auto& spans = tracer.spans(tr);
    std::vector<std::vector<std::size_t>> children(spans.size());
    std::vector<Iv> top;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Iv iv = interval_of(spans[i]);
      const std::int64_t p = spans[i].parent;
      if (p < 0) {
        if (!top.empty() && iv.b < top.back().e) {
          fail(a, "overlapping top-level spans on " + tracer.track_label(tr));
        }
        top.push_back(iv);
        continue;
      }
      const auto pu = static_cast<std::size_t>(p);
      const Iv piv = interval_of(spans[pu]);
      if (iv.b < piv.b || iv.e > piv.e) {
        fail(a, "span '" + spans[i].name + "' escapes its parent");
      }
      if (!children[pu].empty() &&
          iv.b < interval_of(spans[children[pu].back()]).e) {
        fail(a, "overlapping sibling spans under '" + spans[pu].name + "'");
      }
      children[pu].push_back(i);
    }

    std::uint64_t party_charged = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Iv iv = interval_of(spans[i]);
      std::vector<Iv> self;
      std::uint64_t cursor = iv.b;
      for (const std::size_t c : children[i]) {
        const Iv civ = interval_of(spans[c]);
        if (civ.b > cursor) self.push_back({cursor, civ.b});
        cursor = std::max(cursor, civ.e);
      }
      if (iv.e > cursor) self.push_back({cursor, iv.e});
      const std::uint64_t ns = overlap(self, slices);
      party_charged += ns;
      if (spans[i].cat == "kernel") {
        // Charge nested kernels to the outermost kernel span.
        std::size_t root = i;
        bool nested = false;
        while (spans[root].parent >= 0 &&
               spans[static_cast<std::size_t>(spans[root].parent)].cat ==
                   "kernel") {
          root = static_cast<std::size_t>(spans[root].parent);
          nested = true;
        }
        a.kernel_ns[spans[root].name] += ns;
        if (!nested) ++a.kernel_calls[spans[i].name];
      } else {
        a.phase_self_ns[spans[i].name] += ns;
      }
    }
    const std::uint64_t outside = party_slices_ns - overlap(top, slices);
    a.phase_self_ns["(none)"] += outside;
    party_charged += outside;
    if (party_charged != party_slices_ns) {
      fail(a, "span self times do not sum to the slices of " +
                  tracer.track_label(tr));
    }
    charged_ns += party_charged;
  }

  if (charged_ns != slices_ns) fail(a, "slice buckets do not sum");
  if (rounds_ns < slices_ns + route_ns) {
    fail(a, "slices and routing exceed the round spans");
  }
  if (wall_ns < rounds_ns + handshake_ns) {
    fail(a, "round spans exceed the measured wall time");
  }
  const std::uint64_t controller =
      rounds_ns >= slices_ns + route_ns ? rounds_ns - slices_ns - route_ns : 0;
  const std::uint64_t other = wall_ns >= rounds_ns + handshake_ns
                                  ? wall_ns - rounds_ns - handshake_ns
                                  : 0;
  ++a.instances;
  a.wall_ns += wall_ns;
  a.rounds_ns += rounds_ns;
  a.slices_ns += slices_ns;
  a.route_ns += route_ns;
  a.handshake_ns += handshake_ns;
  a.controller_ns += controller;
  a.other_ns += other;
}

}  // namespace perfbench

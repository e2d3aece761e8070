// Exporters for one run's obs::Tracer: a Chrome/Perfetto trace_event
// timeline, the flat `coca-metrics-v1` JSON consumed by benches and CI,
// and a plain-text round table for terminals.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/obs.h"

namespace coca::obs {

/// Identifies the run a trace belongs to; embedded verbatim in exports.
struct RunMeta {
  std::string protocol;
  int n = 0;
  int t = 0;
  std::uint64_t ell_bits = 0;
  std::uint64_t seed = 0;
  std::string notes;
};

/// Engine-independent view of a run's totals. obs deliberately does not
/// include net headers; obs/adapt.h builds one of these from a
/// net::RunStats for callers that link both layers.
struct StatsView {
  std::uint64_t rounds = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_messages = 0;
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_bytes_copied = 0;
  /// Leaf-charged bytes per phase; sums exactly to honest_bytes.
  std::map<std::string, std::uint64_t> phase_breakdown;
  /// Legacy inclusive accounting (a byte counts in every open phase).
  std::map<std::string, std::uint64_t> inclusive_bytes;
};

/// Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev).
/// One tid per track, complete ("X") events per span with round/bytes/
/// messages in args, plus thread_name metadata. With timing disabled all
/// timestamps are 0 -- the timeline collapses but args stay meaningful.
std::string chrome_trace_json(const Tracer& tracer);

/// Flat `coca-metrics-v1` JSON: run meta, exact totals, leaf + inclusive
/// phase breakdowns (bits), merged counters/histograms, per-track span
/// rollups. `include_timing == false` is the canonical mode: every
/// nanosecond-derived field is omitted, making the output byte-identical
/// across execution schedules for the same (protocol, inputs, seed).
std::string metrics_json(const Tracer& tracer, const RunMeta& meta,
                         const StatsView& stats, bool include_timing);

/// Plain-text per-round table (round, bytes, messages, wall-us) built from
/// the engine track's round spans, followed by a per-phase summary.
std::string round_table(const Tracer& tracer, const StatsView& stats);

}  // namespace coca::obs

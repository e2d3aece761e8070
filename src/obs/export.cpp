#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <vector>

#include "util/json.h"

namespace coca::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// trace_event timestamps are microseconds; keep ns precision as decimals.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

template <class Map>
void append_kv_map(std::string& out, const char* key, const Map& m,
                   std::uint64_t scale, const char* indent) {
  out += indent;
  out += '"';
  out += key;
  out += "\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json::escape(name);
    out += "\": ";
    append_u64(out, value * scale);
  }
  out += '}';
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer) {
  std::string out;
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const int tracks = static_cast<int>(tracer.track_count());
  for (int track = 0; track < tracks; ++track) {
    if (!first) out += ",\n";
    first = false;
    // Thread-name metadata so chrome://tracing labels each track.
    out += "{\"ph\": \"M\", \"pid\": 0, \"tid\": ";
    append_u64(out, static_cast<std::uint64_t>(track));
    out += ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
    out += json::escape(tracer.track_label(track));
    out += "\"}}";
    out += ",\n{\"ph\": \"M\", \"pid\": 0, \"tid\": ";
    append_u64(out, static_cast<std::uint64_t>(track));
    out += ", \"name\": \"thread_sort_index\", \"args\": {\"sort_index\": ";
    append_u64(out, static_cast<std::uint64_t>(track));
    out += "}}";
  }
  for (int track = 0; track < tracks; ++track) {
    for (const SpanRecord& span : tracer.spans(track)) {
      out += ",\n{\"ph\": \"X\", \"pid\": 0, \"tid\": ";
      append_u64(out, static_cast<std::uint64_t>(track));
      out += ", \"ts\": ";
      append_us(out, span.start_ns);
      out += ", \"dur\": ";
      append_us(out, span.dur_ns);
      out += ", \"name\": \"";
      out += json::escape(span.name);
      out += "\", \"cat\": \"";
      out += json::escape(span.cat);
      out += "\", \"args\": {\"round\": ";
      append_u64(out, span.round);
      out += ", \"bytes\": ";
      append_u64(out, span.bytes);
      out += ", \"messages\": ";
      append_u64(out, span.messages);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::string metrics_json(const Tracer& tracer, const RunMeta& meta,
                         const StatsView& stats, bool include_timing) {
  std::string out;
  out += "{\n  \"schema\": \"coca-metrics-v1\",\n";
  out += "  \"meta\": {\"protocol\": \"";
  out += json::escape(meta.protocol);
  out += "\", \"n\": ";
  append_u64(out, static_cast<std::uint64_t>(meta.n));
  out += ", \"t\": ";
  append_u64(out, static_cast<std::uint64_t>(meta.t));
  out += ", \"ell_bits\": ";
  append_u64(out, meta.ell_bits);
  out += ", \"seed\": ";
  append_u64(out, meta.seed);
  // coca-metrics-v1 requires the key; the engine has one schedule.
  out += ", \"threads\": 0";
  out += ", \"timing\": ";
  out += include_timing ? "true" : "false";
  if (!meta.notes.empty()) {
    out += ", \"notes\": \"";
    out += json::escape(meta.notes);
    out += '"';
  }
  out += "},\n";

  out += "  \"totals\": {\"honest_bits\": ";
  append_u64(out, stats.honest_bytes * 8);
  out += ", \"honest_messages\": ";
  append_u64(out, stats.honest_messages);
  out += ", \"rounds\": ";
  append_u64(out, stats.rounds);
  out += ", \"payload_copies\": ";
  append_u64(out, stats.payload_copies);
  out += ", \"payload_bytes_copied\": ";
  append_u64(out, stats.payload_bytes_copied);
  out += "},\n";

  // Leaf-charged: sums exactly to totals.honest_bits (tier-1 asserted).
  append_kv_map(out, "phase_bits", stats.phase_breakdown, 8, "  ");
  out += ",\n";
  // Legacy inclusive accounting (a bit counts in every enclosing phase).
  append_kv_map(out, "phase_bits_inclusive", stats.inclusive_bytes, 8, "  ");
  out += ",\n";

  const MetricsRegistry merged = tracer.merged_metrics();
  append_kv_map(out, "counters", merged.counters(), 1, "  ");
  out += ",\n  \"histograms\": {";
  {
    bool first = true;
    for (const auto& [name, hist] : merged.histograms()) {
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += json::escape(name);
      out += "\": {\"count\": ";
      append_u64(out, hist.count);
      out += ", \"sum\": ";
      append_u64(out, hist.sum);
      out += ", \"buckets\": [";
      bool first_bucket = true;
      for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
        if (hist.buckets[i] == 0) continue;
        if (!first_bucket) out += ", ";
        first_bucket = false;
        out += '[';
        append_u64(out, static_cast<std::uint64_t>(i));
        out += ", ";
        append_u64(out, hist.buckets[i]);
        out += ']';
      }
      out += "]}";
    }
  }
  out += "},\n  \"tracks\": [";
  {
    bool first = true;
    const int tracks = static_cast<int>(tracer.track_count());
    for (int track = 0; track < tracks; ++track) {
      std::uint64_t bytes = 0;
      std::uint64_t messages = 0;
      std::uint64_t wall_ns = 0;
      for (const SpanRecord& span : tracer.spans(track)) {
        bytes += span.bytes;
        messages += span.messages;
        wall_ns += span.parent < 0 ? span.dur_ns : 0;
      }
      if (!first) out += ',';
      first = false;
      out += "\n    {\"label\": \"";
      out += json::escape(tracer.track_label(track));
      out += "\", \"kind\": \"";
      out += json::escape(tracer.track_kind(track));
      out += "\", \"honest\": ";
      out += tracer.track_honest(track) ? "true" : "false";
      out += ", \"spans\": ";
      append_u64(out, static_cast<std::uint64_t>(tracer.spans(track).size()));
      out += ", \"bits\": ";
      append_u64(out, bytes * 8);
      out += ", \"messages\": ";
      append_u64(out, messages);
      out += ", \"unattributed_bits\": ";
      append_u64(out, tracer.unattributed_bytes(track) * 8);
      if (include_timing) {
        out += ", \"wall_ns\": ";
        append_u64(out, wall_ns);
      }
      out += '}';
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string round_table(const Tracer& tracer, const StatsView& stats) {
  std::string out;
  out += "round      bits   msgs    wall_us\n";
  const int tracks = static_cast<int>(tracer.track_count());
  for (int track = 0; track < tracks; ++track) {
    if (tracer.track_kind(track) != "engine") continue;
    for (const SpanRecord& span : tracer.spans(track)) {
      if (span.cat != "round") continue;
      char line[96];
      std::snprintf(line, sizeof(line),
                    "%5" PRIu64 " %9" PRIu64 " %6" PRIu64 " %10.1f\n",
                    span.round, span.bytes * 8, span.messages,
                    static_cast<double>(span.dur_ns) / 1000.0);
      out += line;
    }
  }
  out += "\nphase                                bits     share\n";
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : stats.phase_breakdown) total += bytes;
  for (const auto& [name, bytes] : stats.phase_breakdown) {
    char line[160];
    const double share =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(bytes) /
                         static_cast<double>(total);
    std::snprintf(line, sizeof(line), "%-30s %12" PRIu64 "   %5.1f%%\n",
                  name.c_str(), bytes * 8, share);
    out += line;
  }
  char totals[96];
  std::snprintf(totals, sizeof(totals), "%-30s %12" PRIu64 "   100.0%%\n",
                "total", total * 8);
  out += totals;
  return out;
}

}  // namespace coca::obs

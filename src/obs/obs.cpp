#include "obs/obs.h"

#include <bit>
#include <chrono>

#include "util/common.h"

namespace coca::obs {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Histogram::observe(std::uint64_t value, std::uint64_t times) {
  const int bucket = value == 0 ? 0 : 64 - std::countl_zero(value);
  buckets[static_cast<std::size_t>(bucket)] += times;
  count += times;
  sum += value * times;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

void MetricsRegistry::count(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::observe(std::string_view name, std::uint64_t value,
                              std::uint64_t times) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.observe(value, times);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, delta] : other.counters_) {
    counters_[name] += delta;
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

Tracer::Tracer() : Tracer(Options{}) {}

Tracer::Tracer(Options options) : options_(options) {
  if (options_.timing) t0_ns_ = monotonic_ns();
}

std::uint64_t Tracer::now_ns() const {
  if (!options_.timing) return 0;
  return monotonic_ns() - t0_ns_;
}

int Tracer::add_track(std::string label, std::string kind, bool honest) {
  auto track = std::make_unique<Track>();
  track->label = std::move(label);
  track->kind = std::move(kind);
  track->honest = honest;
  tracks_.push_back(std::move(track));
  return static_cast<int>(tracks_.size()) - 1;
}

Tracer::Track& Tracer::track_at(int track) {
  ensure(track >= 0 && static_cast<std::size_t>(track) < tracks_.size(),
         "obs::Tracer: track index out of range");
  return *tracks_[static_cast<std::size_t>(track)];
}

const Tracer::Track& Tracer::track_at(int track) const {
  ensure(track >= 0 && static_cast<std::size_t>(track) < tracks_.size(),
         "obs::Tracer: track index out of range");
  return *tracks_[static_cast<std::size_t>(track)];
}

const std::string& Tracer::track_label(int track) const {
  return track_at(track).label;
}

const std::string& Tracer::track_kind(int track) const {
  return track_at(track).kind;
}

bool Tracer::track_honest(int track) const { return track_at(track).honest; }

void Tracer::begin(int track, std::string name, std::string cat,
                   std::uint64_t round) {
  Track& t = track_at(track);
  SpanRecord span;
  span.name = std::move(name);
  span.cat = std::move(cat);
  span.round = round;
  span.start_ns = now_ns();
  span.parent = t.open.empty() ? -1
                               : static_cast<std::int64_t>(t.open.back());
  t.open.push_back(t.spans.size());
  t.spans.push_back(std::move(span));
}

void Tracer::end(int track) {
  Track& t = track_at(track);
  ensure(!t.open.empty(), "obs::Tracer: end() with no open span");
  SpanRecord& span = t.spans[t.open.back()];
  span.dur_ns = now_ns() - span.start_ns;
  t.open.pop_back();
}

void Tracer::charge(int track, std::uint64_t bytes, std::uint64_t messages) {
  Track& t = track_at(track);
  if (t.open.empty()) {
    t.unattributed_bytes += bytes;
    return;
  }
  SpanRecord& span = t.spans[t.open.back()];
  span.bytes += bytes;
  span.messages += messages;
}

void Tracer::count(int track, std::string_view name, std::uint64_t delta) {
  track_at(track).metrics.count(name, delta);
}

void Tracer::observe(int track, std::string_view name, std::uint64_t value,
                     std::uint64_t times) {
  track_at(track).metrics.observe(name, value, times);
}

const std::vector<SpanRecord>& Tracer::spans(int track) const {
  return track_at(track).spans;
}

std::uint64_t Tracer::unattributed_bytes(int track) const {
  return track_at(track).unattributed_bytes;
}

std::map<std::string, std::uint64_t> Tracer::inclusive_bytes_by_name() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& track : tracks_) {
    if (!track->honest) continue;
    for (const SpanRecord& span : track->spans) {
      if (span.bytes == 0) continue;
      // Walk the ancestor chain so a leaf charge lands on every enclosing
      // span's name exactly once (a name repeated up the chain charges once).
      const SpanRecord* cur = &span;
      std::vector<const std::string*> seen;
      while (true) {
        bool duplicate = false;
        for (const std::string* name : seen) {
          if (*name == cur->name) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          out[cur->name] += span.bytes;
          seen.push_back(&cur->name);
        }
        if (cur->parent < 0) break;
        cur = &track->spans[static_cast<std::size_t>(cur->parent)];
      }
    }
  }
  return out;
}

MetricsRegistry Tracer::merged_metrics() const {
  MetricsRegistry merged;
  for (const auto& track : tracks_) {
    merged.merge(track->metrics);
  }
  return merged;
}

std::vector<Tracer::CatRollup> Tracer::rollup_by_cat() const {
  std::vector<CatRollup> out;
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    for (const SpanRecord& span : tracks_[ti]->spans) {
      CatRollup* row = nullptr;
      for (CatRollup& r : out) {
        if (r.track == static_cast<int>(ti) && r.cat == span.cat) {
          row = &r;
          break;
        }
      }
      if (row == nullptr) {
        out.push_back(CatRollup{static_cast<int>(ti), span.cat, 0, 0, 0, 0});
        row = &out.back();
      }
      row->count += 1;
      row->bytes += span.bytes;
      row->messages += span.messages;
      row->wall_ns += span.dur_ns;
    }
  }
  return out;
}

MetricsRegistry merged_metrics_over(std::span<const Tracer* const> tracers) {
  MetricsRegistry merged;
  for (const Tracer* tracer : tracers) {
    if (tracer != nullptr) merged.merge(tracer->merged_metrics());
  }
  return merged;
}

ThreadScope& thread_scope() {
  thread_local ThreadScope scope;
  return scope;
}

}  // namespace coca::obs

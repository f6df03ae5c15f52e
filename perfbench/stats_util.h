// Sample statistics, process memory and the in-memory span trace shared by
// the benchmark's workloads.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/json.h"

namespace perfbench {

/// Linearly interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Peak resident set size of this process, in MiB.
inline double PeakRssMb() {
  rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Microseconds on the steady clock since the first call.
inline double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// \brief Spans of a traced run, kept in memory and serialized at the end.
/// Each span has a name, start and end (µs on the steady clock), the index
/// of its parent span (-1 for a root) and the id of the request it belongs
/// to. Not thread-safe: each client thread owns its own Trace.
class Trace {
 public:
  struct Span {
    std::string name;
    uint64_t request = 0;
    int parent = -1;
    double start_us = 0;
    double end_us = 0;
  };

  /// Opens a span under the innermost open span.
  void Begin(std::string name, uint64_t request) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), request, parent, NowUs(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span and returns its duration in µs.
  double End() {
    Span& span = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    span.end_us = NowUs();
    return span.end_us - span.start_us;
  }

  /// Records an already-timed span (client-side wire spans whose end is only
  /// known after a frame arrives).
  void Add(std::string name, uint64_t request, int parent, double start_us,
           double end_us) {
    spans_.push_back(Span{std::move(name), request, parent, start_us, end_us});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends every span to `out` (a JSON array), offsetting parent indexes
  /// by `base` so several traces can share one array.
  void AppendJson(fastqre::JsonValue* out) const {
    using fastqre::JsonValue;
    const int base = static_cast<int>(out->size());
    for (const Span& s : spans_) {
      JsonValue j = JsonValue::Object();
      j.Set("name", JsonValue::Str(s.name));
      j.Set("request", JsonValue::Int(static_cast<int64_t>(s.request)));
      j.Set("parent", JsonValue::Int(s.parent < 0 ? -1 : s.parent + base));
      j.Set("start_us", JsonValue::Double(s.start_us));
      j.Set("end_us", JsonValue::Double(s.end_us));
      out->Append(std::move(j));
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes the span it opened when it goes out of scope; adds the span's
/// duration (ms) to `*sink_ms` when given.
class SpanScope {
 public:
  SpanScope(Trace* trace, std::string name, uint64_t request,
            double* sink_ms = nullptr)
      : trace_(trace), sink_ms_(sink_ms) {
    trace_->Begin(std::move(name), request);
  }
  ~SpanScope() {
    const double us = trace_->End();
    if (sink_ms_ != nullptr) *sink_ms_ += us / 1e3;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Trace* trace_;
  double* sink_ms_;
};

}  // namespace perfbench

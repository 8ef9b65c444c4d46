#ifndef DEEPDIVE_UTIL_TRACE_H_
#define DEEPDIVE_UTIL_TRACE_H_

// RAII phase spans (DD_TRACE_SPAN("grounding")) feeding a process-wide
// Tracer, plus RunMetrics: the combined machine-readable JSON / human
// table report over the span tree and the MetricsRegistry.
//
// Spans nest per thread: a span opened while another is live on the same
// thread records the path "parent/child" (reentrancy just extends the
// path). Counters attach to a span via Attr(). A span started on one
// thread must end on the same thread (RAII guarantees this).
//
// Disabled cost matches the metrics layer: the inline constructor checks
// MetricsEnabled() and bails before reading the clock; under
// DD_METRICS_OFF the check is a compile-time false and the span is dead
// code.

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"

namespace dd {

class TraceSpan;

/// Process-wide collector of completed spans. Records are appended at
/// span destruction under a mutex (span exit is not a hot path — the hot
/// paths attach counters, not spans). The buffer is capped so a span in
/// a benchmark loop cannot eat the heap; overflow is counted.
class Tracer {
 public:
  static Tracer& Instance();

  struct SpanRecord {
    std::string path;  ///< "pipeline/grounding/grounding.build"
    std::string name;  ///< leaf name
    double seconds = 0;
    double start_seconds = 0;  ///< relative to process start / last Reset()
    int depth = 0;             ///< 0 = root span
    std::vector<std::pair<std::string, double>> attrs;
  };

  /// Spans kept before overflow counting kicks in.
  static constexpr size_t kMaxRecords = 1 << 20;

  std::vector<SpanRecord> Records() const;
  uint64_t dropped() const;

  /// Total seconds per span path (records are completion-ordered;
  /// aggregation is what reports want).
  std::vector<std::pair<std::string, double>> AggregateByPath() const;

  void Reset();

 private:
  friend class TraceSpan;
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  void Record(SpanRecord&& record);
  double SinceEpoch(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  mutable std::mutex mu_;
  // A deque grows without copying what it holds: every span of a run
  // stays here, and a vector's doubling would briefly hold the buffer
  // twice, raising the process's peak RSS with the number of spans.
  std::deque<SpanRecord> records_;
  uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII phase span. Use via DD_TRACE_SPAN / DD_TRACE_SPAN_VAR.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!MetricsEnabled()) return;
    Begin(name);
  }
  ~TraceSpan() {
    if (active_) End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a counter/measure to this span (shows up in its JSON record).
  void Attr(const char* key, double value) {
    if (active_) attrs_.emplace_back(key, value);
  }

  /// Seconds elapsed so far (0 when tracing is disabled).
  double Seconds() const;

  /// Path of the innermost live span on this thread ("" when none).
  static std::string CurrentPath();

 private:
  friend class TraceAnchor;
  TraceSpan() = default;  ///< inert span, used by TraceAnchor only

  void Begin(const char* name);
  void End();

  bool active_ = false;
  std::string path_;
  TraceSpan* parent_ = nullptr;
  int depth_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> attrs_;
};

/// RAII re-parenting for pool threads: installs `path` as the innermost
/// live span on the current thread without recording anything itself, so
/// spans opened by a task-graph node running on a worker thread land at
/// the same Fig. 2 tree position ("pipeline/<node>") they would occupy
/// on the coordinator. Restores the thread's previous span stack on
/// destruction. No-op when tracing is disabled or `path` is empty.
class TraceAnchor {
 public:
  explicit TraceAnchor(const std::string& path);
  ~TraceAnchor();

  TraceAnchor(const TraceAnchor&) = delete;
  TraceAnchor& operator=(const TraceAnchor&) = delete;

 private:
  bool installed_ = false;
  TraceSpan span_;  ///< inert (never records); exists to parent children
  TraceSpan* saved_span_ = nullptr;
  std::string saved_path_;
};

#define DD_TRACE_CONCAT_INNER(a, b) a##b
#define DD_TRACE_CONCAT(a, b) DD_TRACE_CONCAT_INNER(a, b)
/// Anonymous scope span.
#define DD_TRACE_SPAN(name) \
  ::dd::TraceSpan DD_TRACE_CONCAT(_dd_trace_span_, __LINE__)(name)
/// Named span, for attaching attrs: DD_TRACE_SPAN_VAR(span, "x"); span.Attr(...)
#define DD_TRACE_SPAN_VAR(var, name) ::dd::TraceSpan var(name)

/// The run-level report: everything the registry and tracer know, as a
/// machine-readable JSON document (BENCH_*.json-compatible: flat numeric
/// leaves CI can diff) or a one-screen human table.
///
/// JSON shape:
///   {
///     "schema": "dd-metrics-v1",
///     "phases": {"extraction": 1.2, ...},   // spans directly under "pipeline"
///     "spans": [{"path":..., "seconds":..., "attrs": {...}}, ...],
///     "counters": {...}, "gauges": {...},
///     "histograms": {"name": {"count":..,"sum":..,"p50":..,"p95":..,"p99":..}}
///   }
struct RunMetrics {
  static std::string ToJson();
  static std::string ToTable();
  static Status WriteJsonFile(const std::string& path);
  /// Zero metric values and drop span records (registrations survive).
  static void Reset();
};

}  // namespace dd

#endif  // DEEPDIVE_UTIL_TRACE_H_

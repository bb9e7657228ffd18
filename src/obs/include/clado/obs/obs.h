// clado::obs — lightweight tracing and metrics for the pipeline's hot paths.
//
// Three primitives, all backed by one process-wide registry:
//   * Counter — monotonically increasing int64 (atomic, relaxed).
//   * Gauge   — last-written double plus its running maximum.
//   * Span    — RAII scoped timer; every close feeds a per-name aggregate
//     (count + total seconds) and, when tracing is on, appends a Chrome
//     trace-event so chrome://tracing / Perfetto can render the timeline.
//
// Activation:
//   CLADO_TRACE=<path>    record span events and write a Chrome
//                         trace-event JSON file at process exit.
//   CLADO_METRICS=<path>  write the metrics dump at process exit
//                         (JSON when the path ends in ".json", plain
//                         text otherwise).
//   CLADO_TRACE_CAP=<n>   capacity of the trace-event ring buffer
//                         (default 2^20). The buffer keeps the newest
//                         <n> events: once full, each append evicts the
//                         oldest event and increments the trace.dropped
//                         counter, so a long-running serve session holds
//                         the trailing window of activity at bounded
//                         memory instead of growing without limit.
//
// Span aggregates and counters are always maintained — they are cheap
// (one relaxed atomic add, or two clock reads plus a short mutex hold per
// span) — so phase timings are reportable even with tracing off; only the
// per-event trace buffer is gated on CLADO_TRACE.
//
// Thread safety: all entry points may be called from any thread. The
// registry is constructed on first use and never destroyed (its trace and
// metrics files are exported by an atexit hook), so Counter and Gauge
// handles returned by counter()/gauge() stay valid for the whole process
// and instrumented code is safe in late static destructors and on threads
// still running at exit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace clado::obs {

class Counter {
 public:
  constexpr Counter() = default;
  void add(std::int64_t delta = 1) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the counter. Exists only so reset_for_testing() can clear
  /// state without invalidating interned handles; not for production use.
  void reset_for_testing() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  constexpr Gauge() = default;
  /// Records `v` as the latest value and folds it into the running max.
  void set(double v) noexcept;
  double value() const noexcept { return last_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  /// See Counter::reset_for_testing().
  void reset_for_testing() noexcept {
    last_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> last_{0.0};
  std::atomic<double> max_{0.0};
};

/// Interned handle lookup; the same name always yields the same object.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);

/// Scoped timer. Destruction (or an explicit close()) records the duration
/// into the per-name span aggregate and, when tracing is enabled, emits one
/// complete ("ph":"X") trace event stamped with the calling thread.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now and returns its duration in seconds. Idempotent:
  /// later calls (including the destructor's) return 0 and record nothing.
  double close() noexcept;

 private:
  std::string name_;
  std::int64_t start_us_ = 0;
  bool open_ = false;
};

/// Aggregate of all closed spans sharing one name.
struct SpanStat {
  std::int64_t count = 0;
  double total_seconds = 0.0;
};

/// Aggregate for `name` ({0, 0.0} if the name was never recorded).
SpanStat span_stat(std::string_view name);

/// True when span events are being buffered for trace export.
bool trace_enabled();

/// Overrides (or, with an empty path, disables) the CLADO_TRACE
/// destination for the rest of the process. Mainly for tests.
void set_trace_path(std::string path);

/// Overrides the CLADO_METRICS destination. Mainly for tests.
void set_metrics_path(std::string path);

/// Overrides the trace ring-buffer capacity (CLADO_TRACE_CAP). Existing
/// buffered events beyond the new capacity are evicted oldest-first and
/// counted as dropped. `capacity` must be >= 1.
void set_trace_capacity(std::size_t capacity);

/// Events evicted from the trace ring (or refused by a full pre-ring
/// buffer) since the last reset; surfaced as "trace.dropped" in the dumps.
std::int64_t trace_dropped();

/// Human-readable metrics dump: one line per counter, gauge, and span
/// aggregate, sorted by name. Empty string when nothing was recorded.
std::string metrics_text();

/// The same dump as a JSON object:
/// {"counters":{...},"gauges":{...},"spans":{...}}.
std::string metrics_json();

/// Writes the buffered trace events as a Chrome trace-event JSON file.
/// Returns false when the file cannot be written.
bool write_trace(const std::string& path);

/// Writes metrics_json()/metrics_text() to `path` (format by extension).
bool write_metrics(const std::string& path);

/// Forces registry initialization: reads CLADO_TRACE / CLADO_METRICS and
/// registers the exit-time export now. Calling it from a static object's
/// constructor orders that export after the object's destructor (atexit
/// hooks and static destructors run in reverse registration order).
void touch();

/// Drops every counter, gauge, span aggregate, and buffered event.
/// Configured trace/metrics paths are kept. Tests only.
void reset_for_testing();

}  // namespace clado::obs
